"""Format round trips, golden files and schema error reporting."""

import dataclasses
import json
import math
import random
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import dump_text, make_detection
from seqlabel.annotate import (AnnotationEntry, FrameAnnotation, annotation_to_json,
                               read_annotation_dump)
from seqlabel.dataio import (
    ROTATION_INPUT_TOL,
    DetectionRecord,
    TrajectoryFile,
    _check_rotation,
    _detection_line,
    _entries,
    _json_record,
    _read,
    detection_to_json,
    parse_calib,
    parse_kitti_labels,
    parse_trajectory,
    pose_row,
    read_detections,
    serialize_calib,
    serialize_trajectory,
    write_detections,
    write_kitti_labels,
)
from seqlabel.errors import (
    MissingCamera,
    OrthonormalityError,
    ParseError,
    SchemaError,
)
from seqlabel.geometry import Pose, nearest_rotation, yaw_to_rotation
from seqlabel.labels import (Box2D, Dimensions3D, KittiLabelLine, _data_lines, _parse_floats,
                             box_error, dims_error, format_label_line, frame_file_name,
                             frame_id_of, is_number, wrap_angle)
from seqlabel.landmark import Landmark, landmark_to_json, parse_landmarks, serialize_landmarks
from test_cli import FUZZ_VALUES, mutate

DATA = Path(__file__).parent / "data"


def oracle_check_rotation(r: np.ndarray, lineno: int, tol: float) -> None:
    """One rotation block checked on its own: dataio._check_rotation must raise as it does."""
    with np.errstate(over="ignore", invalid="ignore"):
        dev = np.abs(r.T @ r - np.eye(3)).max()
    if not dev <= tol:
        raise OrthonormalityError(lineno, f"rotation deviates from orthonormal by {dev:.3e}")
    if not np.linalg.det(r) > 0:
        raise OrthonormalityError(lineno, "rotation block is a reflection (det < 0)")


def oracle_parse_trajectory(text: str) -> TrajectoryFile:
    """Camera poses read one line at a time, each rotation checked as its line is read:
    dataio.parse_trajectory must give the same poses, bit for bit, or the same error."""
    rows = []
    for lineno, line in _data_lines(text):
        fields = line.split()
        if len(fields) != 12:
            raise ParseError(lineno, f"expected 12 fields, got {len(fields)}")
        rows.append(np.array(_parse_floats(fields, lineno)).reshape(3, 4))
        oracle_check_rotation(rows[-1][:, :3], lineno, ROTATION_INPUT_TOL)
    rotations, _ = nearest_rotation(np.array(rows).reshape(-1, 3, 4)[..., :3])
    return TrajectoryFile([Pose(r, m[:, 3]) for r, m in zip(rotations, rows)])


def oracle_pose_row(pose: Pose) -> list[float]:
    """[R | t] stacked with np.hstack and flattened, each entry a float: dataio.pose_row
    must give the same numbers, bit for bit."""
    return [float(v) for v in np.hstack([pose.rotation, pose.translation.reshape(3, 1)]).ravel()]


def oracle_read_detections(text: str) -> dict[int, list[DetectionRecord]]:
    """Detection JSONL read field by field: json.loads' hook checks every number
    as it decodes, then _read and _entries check every field.  dataio.read_detections
    must give the same records, bit for bit, or the same error."""
    groups = {}
    descriptor_len = None
    for lineno, line in _data_lines(text):
        obj = _json_record(line, lineno)
        frame_id = _read(obj, "frame_id", lineno, int)
        category = _read(obj, "category", lineno, str)
        box = _entries(obj, "box2d", lineno, "ltrb", rule=box_error)
        dims = _entries(obj, "dims", lineno, "hwl", rule=dims_error)
        center = _entries(obj, "center2d", lineno, "uv")
        depth = _read(obj, "depth", lineno)
        if not depth > 0:
            raise SchemaError(lineno, f"field 'depth' must be positive, got {depth}")
        score = _read(obj, "score", lineno)
        if not 0.0 <= score <= 1.0:
            raise SchemaError(lineno, f"field 'score' must be in [0, 1], got {score}")
        sigma = None
        if obj.get("sigma") is not None:
            sigma = _read(obj, "sigma", lineno)
            if not (sigma > 0):
                raise SchemaError(lineno, f"field 'sigma' must be positive, got {sigma}")
        descriptor = None
        if obj.get("descriptor") is not None:
            descriptor = _entries(obj, "descriptor", lineno, descriptor_len)
            if not descriptor:
                raise SchemaError(lineno,
                                  "field 'descriptor' must be a non-empty array of numbers")
            descriptor_len = len(descriptor)
            descriptor = np.array(descriptor)
        groups.setdefault(frame_id, []).append(DetectionRecord(
            frame_id=frame_id, category=category, box2d=Box2D(*box), depth=depth,
            yaw=wrap_angle(_read(obj, "yaw", lineno)), dims=Dimensions3D(*dims),
            center2d=tuple(center), score=score, sigma=sigma, descriptor=descriptor,
            gt_id=_read(obj, "gt_id", lineno, int) if obj.get("gt_id") is not None else None,
        ))
    return {k: groups[k] for k in sorted(groups)}


def _bits(value):
    """A value as comparable bits: arrays by dtype and bytes, others by type and repr; a
    dataclass or tuple by its type and its items' bits, so a Box2D is no bare tuple."""
    if isinstance(value, np.ndarray):
        return "array", value.dtype.str, value.shape, value.tobytes()
    if dataclasses.is_dataclass(value):
        return type(value).__name__, tuple(_bits(getattr(value, f.name))
                                           for f in dataclasses.fields(value) if f.compare)
    if isinstance(value, tuple):
        return type(value).__name__, tuple(_bits(v) for v in value)
    return type(value).__name__, repr(value)


def _outcome(read, text):
    """What a reader makes of text: its poses or records as bits, or its error's kind, line
    and text."""
    try:
        result = read(text)
    except ParseError as e:
        return type(e).__name__, e.line, str(e)
    if isinstance(result, TrajectoryFile):
        return [_bits(pose) for pose in result.poses]
    return [(k, [_bits(d) for d in ds]) for k, ds in result.items()]


class TestTrajectory:
    def test_identity_line(self):
        traj = parse_trajectory("1 0 0 0 0 1 0 0 0 0 1 0\n")
        assert len(traj) == 1
        assert np.allclose(traj.pose(0).rotation, np.eye(3))
        assert np.allclose(traj.pose(0).translation, 0.0)

    def test_translation_column(self):
        traj = parse_trajectory("1 0 0 0 0 1 0 0 0 0 1 5\n")
        assert np.allclose(traj.pose(0).translation, [0, 0, 5])

    def test_wrong_field_count(self):
        with pytest.raises(ParseError) as exc:
            parse_trajectory("1 0 0 0 0 1 0 0 0 0 1\n")
        assert exc.value.line == 1

    def test_non_finite_value(self):
        with pytest.raises(ParseError):
            parse_trajectory("1 0 0 0 0 1 0 0 0 0 1 nan\n")

    def test_line_number_in_error(self):
        text = "1 0 0 0 0 1 0 0 0 0 1 0\nbogus\n"
        with pytest.raises(ParseError) as exc:
            parse_trajectory(text)
        assert exc.value.line == 2

    def test_orthonormality_error(self):
        with pytest.raises(OrthonormalityError):
            parse_trajectory("2 0 0 0 0 2 0 0 0 0 2 0\n")

    def test_reflection_rejected(self):
        with pytest.raises(OrthonormalityError):
            parse_trajectory("1 0 0 0 0 1 0 0 0 0 -1 0\n")

    def test_nan_rotation_fails_the_check(self):
        with pytest.raises(OrthonormalityError):
            _check_rotation(np.full((1, 3, 3), np.nan), [1], ROTATION_INPUT_TOL)

    def test_mild_noise_reorthonormalized(self):
        # 1e-4-level deviation passes the input tolerance and gets projected back.
        r = yaw_to_rotation(0.3)
        r = r + 1e-4 * np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
        line = " ".join(repr(float(v)) for v in np.hstack([r, np.zeros((3, 1))]).ravel())
        traj = parse_trajectory(line + "\n")
        rot = traj.pose(0).rotation
        assert np.abs(rot.T @ rot - np.eye(3)).max() < 1e-12

    def test_golden_round_trip(self):
        text = (DATA / "trajectory_golden.txt").read_text()
        assert serialize_trajectory(parse_trajectory(text)) == text

    LINES = ["1 0 0 0 0 1 0 0 0 0 1 5", "2 0 0 0 0 2 0 0 0 0 2 0", "1 0 0 0 0 1 0 0 0 0 -1 0",
             "1 0 0 0 0 1 0 0 0 0 1", "1e308 0 0 0 0 1 0 0 0 0 1 0", "nan 0 0 0 0 1 0 0 0 0 1 0",
             "x 0 0 0 0 1 0 0 0 0 1 0", "1e308 1e308 0 0 1e308 -1e308 0 0 0 0 1 0", "# c", ""]

    @pytest.mark.parametrize("seed", range(4))
    def test_same_poses_or_error_as_the_line_by_line_oracle(self, seed):
        # The stacked rotation test reports the same first line as one check per line.
        rng = random.Random(seed)
        golden = (DATA / "trajectory_golden.txt").read_text().splitlines()
        for _ in range(200):
            lines = golden + [rng.choice(self.LINES) for _ in range(rng.randint(0, 4))]
            rng.shuffle(lines)
            text = "\n".join(lines) + "\n"
            assert _outcome(parse_trajectory, text) == _outcome(oracle_parse_trajectory, text)

    def test_parse_serialize_idempotent(self):
        text = (DATA / "trajectory_golden.txt").read_text()
        once = parse_trajectory(text)
        twice = parse_trajectory(serialize_trajectory(once))
        for a, b in zip(once.poses, twice.poses):
            assert np.array_equal(a.rotation, b.rotation)
            assert np.array_equal(a.translation, b.translation)


class TestCalib:
    def test_parse_simple(self):
        calib = parse_calib("P2: 700 0 600 0 0 700 180 0 0 0 1 0\n")
        assert calib.get("P2").P[0, 0] == 700.0

    def test_empty_then_missing_camera(self):
        calib = parse_calib("")
        with pytest.raises(MissingCamera):
            calib.get("P2")

    def test_non_numeric(self):
        with pytest.raises(ParseError):
            parse_calib("P2: a b c d e f g h i j k l\n")

    def test_zero_depth_row_entry(self):
        with pytest.raises(ParseError, match=r"P\[2\]\[2\] is zero") as exc:
            parse_calib("P2: 700 0 600 0 0 700 180 0 0 0 1 0\nP3: 700 0 600 0 0 700 180 0 0 0 0 1\n")
        assert exc.value.line == 2

    def test_golden_round_trip(self):
        text = (DATA / "calib_golden.txt").read_text()
        assert serialize_calib(parse_calib(text)) == text


class TestDetections:
    def test_groups_sorted_by_frame(self):
        groups = read_detections((DATA / "detections_good.jsonl").read_text())
        assert list(groups) == [0, 1]
        # Input order preserved within frame 0.
        assert [d.depth for d in groups[0]] == [22.5, 28.0]

    def test_optional_fields(self):
        groups = read_detections((DATA / "detections_good.jsonl").read_text())
        d0, d1 = groups[0]
        assert d0.sigma == 0.5 and d0.descriptor is None
        assert d1.sigma is None and list(d1.descriptor) == [0.1, 0.5, 0.2]
        assert d1.gt_id == 2

    def _record(self, **overrides):
        base = {
            "frame_id": 0, "category": "Car",
            "box2d": {"l": 0, "t": 0, "r": 10, "b": 10},
            "depth": 10.0, "yaw": 0.0,
            "dims": {"h": 1.5, "w": 1.7, "l": 4.2},
            "center2d": {"u": 5, "v": 5}, "score": 0.9,
        }
        base.update(overrides)
        return json.dumps(base) + "\n"

    def test_score_out_of_range(self):
        with pytest.raises(SchemaError) as exc:
            read_detections(self._record(score=1.5))
        assert "score" in str(exc.value) and exc.value.line == 1

    def test_error_line_number(self):
        text = self._record() + self._record(depth="not-a-number")
        with pytest.raises(SchemaError) as exc:
            read_detections(text)
        assert exc.value.line == 2

    @pytest.mark.parametrize("depth", [-1.0, 0.0, 0])
    def test_non_positive_depth(self, depth):
        text = self._record() + self._record(depth=depth)
        with pytest.raises(SchemaError) as exc:
            read_detections(text)
        assert "depth" in str(exc.value) and exc.value.line == 2

    def test_missing_field(self):
        rec = json.loads(self._record())
        del rec["dims"]
        with pytest.raises(SchemaError) as exc:
            read_detections(json.dumps(rec) + "\n")
        assert "dims" in str(exc.value)

    def test_bad_sigma(self):
        with pytest.raises(SchemaError):
            read_detections(self._record(sigma=0.0))

    def test_invalid_box(self):
        with pytest.raises(SchemaError):
            read_detections(self._record(box2d={"l": 10, "t": 0, "r": 0, "b": 10}))

    def test_descriptor_length_must_be_constant(self):
        text = self._record(descriptor=[1, 2, 3]) + self._record(descriptor=[1, 2])
        with pytest.raises(SchemaError) as exc:
            read_detections(text)
        assert exc.value.line == 2

    def test_invalid_json(self):
        with pytest.raises(SchemaError):
            read_detections("{not json}\n")

    @pytest.mark.parametrize("field, literal", [
        ("yaw", "NaN"),
        ("yaw", "-Infinity"),
        ("depth", "Infinity"),
        ("depth", "1e999"),
        ("score", "-1e400"),
        ("depth", "1" * 400),
        ("sigma", "NaN"),
    ])
    def test_non_finite_number(self, field, literal):
        rec = self._record(**{field: "LITERAL"}).replace('"LITERAL"', literal)
        with pytest.raises(SchemaError) as exc:
            read_detections(self._record() + rec)
        assert "non-finite" in str(exc.value) and exc.value.line == 2

    @pytest.mark.parametrize("descriptor", [["a", "b"], [1.0, None], [True, 0.5], [[1.0], [2.0]]])
    def test_descriptor_entries_must_be_numbers(self, descriptor):
        with pytest.raises(SchemaError) as exc:
            read_detections(self._record(descriptor=descriptor))
        assert "descriptor" in str(exc.value) and exc.value.line == 1

    @pytest.mark.parametrize("field, key, value", [
        ("box2d", "l", True), ("box2d", "t", "10"), ("dims", "h", True), ("dims", "l", "3.9"),
        ("center2d", "u", False), ("center2d", "v", None), ("box2d", "r", [10]),
    ])
    def test_nested_entries_must_be_numbers(self, field, key, value):
        rec = json.loads(self._record())
        rec[field][key] = value
        with pytest.raises(SchemaError) as exc:
            read_detections(self._record() + json.dumps(rec) + "\n")
        assert f"'{field}.{key}' must be a number" in str(exc.value) and exc.value.line == 2

    def test_nested_integers_load_as_floats(self):
        (d,) = read_detections(self._record())[0]
        assert d.box2d == Box2D(0.0, 0.0, 10.0, 10.0) and d.center2d == (5.0, 5.0)
        assert all(type(v) is float for v in (d.box2d.left, d.center2d[0], d.dims.height))

    # Raw JSON for a mutated leaf or an added key: numbers json.dumps does not write.
    LITERALS = ["1e999", "-1e400", "1" * 400, "-" + "9" * 309, "1e-400", "NaN", "-Infinity",
                "[1e999]", '{"x": 1e999}', "[" * 3000 + "]" * 3000, "1e308", "0"]

    # Raw edits of the file's first match: numbers beyond the float range that the field
    # rules alone would not see (an integer sum that cancels, a repeated key) and their kin.
    WIDE = "0" * 400
    EDITS = {
        "box l, r cancel": ('"l": 500, "t": 150, "r": 700', f'"l": -1{WIDE}, "t": 150, "r": 1{WIDE}'),
        "descriptor cancels": ("[0.1, 0.5, 0.2]", f"[-1{WIDE}, 1{WIDE}, 0.2]"),
        "repeated depth": ('"depth": 15.0', '"depth": 1e999, "depth": 15.0'),
        "repeated box l": ('"l": 500', '"l": 1e999, "l": 500'),
        "repeated frame_id": ('"frame_id": 1,', f'"frame_id": 1{WIDE}, "frame_id": 1,'),
        "repeated in range": ('"depth": 15.0', '"depth": 99.0, "depth": 15.0'),
        "wide frame_id": ('"frame_id": 1,', f'"frame_id": 1{WIDE},'),
        "wide gt_id": ('"gt_id": 2', f'"gt_id": -2{WIDE}'),
        "past int digits": ('"depth": 15.0', '"depth": 1' + "0" * 5000),
        "rounds to max": ('"depth": 15.0', f'"depth": {int(1.7976931348623157e308) + 1}'),
        "nested extra": ('"b": 240}', '"b": 240, "x": 1e999}'),
        "colon in category": ('"Car"', '"Car:1"'),
    }

    @given(line=st.integers(0, 3), field=st.integers(0, 40),
           value=st.sampled_from(FUZZ_VALUES + LITERALS), added=st.sampled_from([None] + LITERALS),
           edit=st.sampled_from([None, *EDITS]))
    @settings(max_examples=300, deadline=None)
    @example(line=0, field=0, value=None, added="1e999", edit=None)  # under an unknown key
    @example(line=2, field=13, value="1e999", added=None, edit=None)  # in a descriptor
    @example(line=1, field=12, value=("0", 0), added=None, edit=None)  # sigma 0
    # Line 2's frame_id is 0 already, so only the edit changes the file.
    @example(line=1, field=0, value=("0", 0), added=None, edit="box l, r cancel")
    @example(line=1, field=0, value=("0", 0), added=None, edit="descriptor cancels")
    @example(line=1, field=0, value=("0", 0), added=None, edit="repeated depth")
    @example(line=1, field=0, value=("0", 0), added=None, edit="repeated box l")
    @example(line=1, field=0, value=("0", 0), added=None, edit="repeated frame_id")
    @example(line=1, field=0, value=("0", 0), added=None, edit="wide gt_id")
    @example(line=1, field=0, value=("0", 0), added=None, edit="rounds to max")
    def test_same_records_or_error_as_the_field_by_field_oracle(self, line, field, value, added,
                                                                 edit):
        text = (DATA / "detections_good.jsonl").read_text()
        literal = value if isinstance(value, str) else None
        text = mutate(text, True, line, field, ("", "@LITERAL@") if literal else value)
        lines = text.splitlines()
        if added is not None:
            lines[line % len(lines)] = lines[line % len(lines)][:-1] + f', "extra": {added}}}'
        text = "\n".join(lines).replace('"@LITERAL@"', str(literal)) + "\n"
        if edit is not None:
            text = text.replace(*self.EDITS[edit], 1)
        want = _outcome(oracle_read_detections, text)
        assert _outcome(read_detections, text) == want
        if isinstance(want, list):  # each record keeps the line it came from
            got = read_detections(text)
            assert sorted(d.line for ds in got.values() for d in ds) == \
                [lineno for lineno, _ in _data_lines(text)]

    def test_record_is_built_with_its_line(self):
        line = (DATA / "detections_good.jsonl").read_text().splitlines()[0]
        assert _detection_line(line, 7, None).line == 7

    def test_round_trip(self):
        text = (DATA / "detections_good.jsonl").read_text()
        groups = read_detections(text)
        flat = [d for frame in groups.values() for d in frame]
        again = read_detections(write_detections(flat))
        assert [d.depth for frame in again.values() for d in frame] == [22.5, 28.0, 15.0]


def _entry(landmark_id, category, x, y, z, yaw, box, dims, frac=1.0):
    return AnnotationEntry(
        landmark_id=landmark_id,
        category=category,
        local_pose=Pose(yaw_to_rotation(yaw), np.array([x, y, z])),
        box2d=box,
        box2d_raw=box,
        depth=z,
        yaw_local=yaw,
        dims=dims,
        provenance="observed_in_frame",
        score=1.0,
        visible_fraction=frac,
    )


def oracle_format_label_line(lab) -> str:
    """Each field formatted on its own, negative zero as 0.00: format_label_line must match."""
    def fmt2(v):
        out = f"{v:.2f}"
        return "0.00" if out == "-0.00" else out
    return " ".join([lab.category, fmt2(lab.truncated), str(int(lab.occluded)), fmt2(lab.alpha),
                     *map(fmt2, [*lab.box2d, *lab.dims, *lab.location, lab.yaw_local])])


def oracle_parse_kitti_labels(text: str) -> list[KittiLabelLine]:
    """Label parsing in three passes: _data_lines strips each line, is_number tests each
    number, and each record is built from slices.  parse_kitti_labels must match it."""
    out = []
    for lineno, line in _data_lines(text):
        fields = line.split()
        if len(fields) not in (15, 16):
            raise ParseError(lineno, f"expected 15 label fields, got {len(fields)}")
        try:
            vals = [float(f) for f in fields[1:15]]
        except ValueError:
            raise ParseError(lineno, f"non-numeric field in {fields[1:15]!r}") from None
        if not all(map(is_number, vals)):
            raise ParseError(lineno, "non-finite value")
        error = box_error(*vals[3:7])
        if error:
            raise ParseError(lineno, error)
        out.append(KittiLabelLine(
            category=fields[0], truncated=vals[0], occluded=int(vals[1]), alpha=vals[2],
            box2d=Box2D(*vals[3:7]), dims=Dimensions3D(*vals[7:10]),
            location=tuple(vals[10:13]), yaw_local=vals[13]))
    return out


def _labels_outcome(parse, text):
    """What a label parser makes of text: its records as bits, or its error's line and reason."""
    try:
        return [_bits(label) for label in parse(text)]
    except ParseError as e:
        return type(e).__name__, e.line, e.reason


# Tokens a mutation writes over a label field: non-finite, beyond the float range,
# non-numeric, and spellings float() takes that a label writer never emits.
BAD_TOKENS = ["nan", "-nan", "NaN", "inf", "-inf", "Infinity", "1e999", "-1e999", "1e308",
              "5e-324", "-0", "x", "1,5", "0x10", "1_0", "--1", "", "#", "Car"]
# Lines that hold no label: comments, and lines of whitespace only, including the
# separators str.splitlines also splits on (\x0b, \x0c, \x1c).
NON_LABEL_LINES = ["", "#", "# 15 fields follow", "  #Car 0 0 0 1 2 3", "\t# x", " ",
                   "\t \t", "\x0b", "\x0c", "\x1c", " \x1c ", "\x1c# x", "\u3000", "\x85"]


@st.composite
def _label_line(draw):
    """A well-formed label line, mutated: 14, 16 or 17 fields, a bad token, the box edges
    swapped, or extra whitespace between fields."""
    left, top = draw(st.floats(-50, 1300)), draw(st.floats(-50, 400))
    numbers = [draw(st.floats(0, 1)), draw(st.integers(0, 3)), draw(st.floats(-4, 4)),
               left, top, left + draw(st.floats(0, 500)), top + draw(st.floats(0, 300)),
               *draw(st.lists(st.floats(-2, 6), min_size=6, max_size=6)), draw(st.floats(-4, 4))]
    fields = [draw(st.sampled_from(["Car", "Van", "DontCare", "c#r"]))]
    fields += [str(v) if draw(st.booleans()) else f"{v:.2f}" for v in numbers]
    mutation = draw(st.sampled_from(["none", "count", "token", "swap", "spaces"]))
    if mutation == "count":
        fields = fields[:14] if draw(st.booleans()) else fields + ["0.87", "1"][:draw(
            st.integers(1, 2))]
    elif mutation == "token":
        fields[draw(st.integers(1, len(fields) - 1))] = draw(st.sampled_from(BAD_TOKENS))
    elif mutation == "swap":
        fields[4], fields[6] = fields[6], fields[4]
    sep = draw(st.sampled_from([" ", "  ", "\t", " \t"])) if mutation == "spaces" else " "
    return draw(st.sampled_from(["", " ", "\t"])) + sep.join(fields)


class TestKittiLabels:
    @settings(max_examples=400, deadline=None)
    @given(lines=st.lists(_label_line() | st.sampled_from(NON_LABEL_LINES), max_size=6),
           ends=st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=6, max_size=6),
           last=st.sampled_from(["", "\n", "\r\n"]))
    def test_parse_matches_the_line_by_line_oracle(self, lines, ends, last):
        text = "".join(line + end for line, end in zip(lines, ends))
        text = text[:len(text) - len(ends[len(lines) - 1])] + last if lines else last
        assert (_labels_outcome(parse_kitti_labels, text)
                == _labels_outcome(oracle_parse_kitti_labels, text))

    @settings(max_examples=300, deadline=None)
    @given(category=st.sampled_from(["Car", "Car -0.00"]) | st.text(min_size=1),
           occluded=st.integers(0, 3),
           values=st.lists(st.floats() | st.sampled_from([-0.0, -0.004, -0.005, -0.006, 0.005]),
                           min_size=13, max_size=13))
    def test_format_matches_the_field_by_field_oracle(self, category, occluded, values):
        lab = KittiLabelLine(category, values[0], occluded, values[1], Box2D(*values[2:6]),
                             Dimensions3D(*values[6:9]), tuple(values[9:12]), values[12])
        assert format_label_line(lab) == oracle_format_label_line(lab)

    def test_empty_annotation(self):
        assert write_kitti_labels(FrameAnnotation(frame_id=0)) == ""

    def test_field_count(self):
        ann = FrameAnnotation(frame_id=0, entries=[
            _entry(0, "Car", 2.0, 1.65, 20.0, 0.5,
                   Box2D(600.5, 170.25, 700.0, 210.75), Dimensions3D(1.5, 1.7, 4.2)),
        ])
        lines = write_kitti_labels(ann).splitlines()
        assert len(lines) == 1
        assert len(lines[0].split()) == 15

    def test_golden_file(self):
        ann = FrameAnnotation(frame_id=0, entries=[
            _entry(0, "Car", 2.0, 1.65, 20.0, 0.5,
                   Box2D(600.5, 170.25, 700.0, 210.75), Dimensions3D(1.5, 1.7, 4.2)),
            _entry(1, "Van", -6.0, 1.4, 31.0, -1.17,
                   Box2D(0.0, 150.0, 80.0, 200.0), Dimensions3D(2.1, 1.9, 5.1), frac=0.75),
        ])
        assert write_kitti_labels(ann) == (DATA / "labels_golden.txt").read_text()

    def test_parse_golden(self):
        labels = parse_kitti_labels((DATA / "labels_golden.txt").read_text())
        assert [lab.category for lab in labels] == ["Car", "Van"]
        assert labels[0].location == (2.0, 1.65, 20.0)
        assert labels[1].yaw_local == -1.17
        assert labels[1].truncated == 0.25

    def test_parse_format_round_trip(self):
        text = (DATA / "labels_golden.txt").read_text()
        again = "".join(format_label_line(lab) + "\n" for lab in parse_kitti_labels(text))
        assert again == text

    def test_sixteen_field_score_tolerated(self):
        line = (DATA / "labels_golden.txt").read_text().splitlines()[0] + " 0.87\n"
        assert len(parse_kitti_labels(line)) == 1

    def test_wrong_field_count(self):
        with pytest.raises(ParseError):
            parse_kitti_labels("Car 0.0 0 0.0 1 2 3\n")

    def test_ordering_by_landmark_id(self):
        e0 = _entry(4, "Car", 0, 1.6, 10.0, 0.0, Box2D(0, 0, 50, 50), Dimensions3D(1, 1, 1))
        e1 = _entry(2, "Car", 0, 1.6, 12.0, 0.0, Box2D(0, 0, 50, 50), Dimensions3D(1, 1, 1))
        text = write_kitti_labels(FrameAnnotation(frame_id=0, entries=[e0, e1]))
        depths = [line.split()[13] for line in text.splitlines()]
        assert depths == ["12.00", "10.00"]

    def test_negative_zero_normalized(self):
        e = _entry(0, "Car", -0.001, 1.6, 10.0, 0.0, Box2D(0, 0, 50, 50), Dimensions3D(1, 1, 1))
        text = write_kitti_labels(FrameAnnotation(frame_id=0, entries=[e]))
        assert "-0.00" not in text

    def test_alpha_convention(self):
        # alpha = ry - arctan(x / z), wrapped.
        e = _entry(0, "Car", 5.0, 1.6, 10.0, 1.0, Box2D(0, 0, 50, 50), Dimensions3D(1, 1, 1))
        text = write_kitti_labels(FrameAnnotation(frame_id=0, entries=[e]))
        alpha = float(text.split()[3])
        assert alpha == pytest.approx(1.0 - math.atan2(5.0, 10.0), abs=5e-3)


class TestRowLayout:
    """A box is the row (left, top, right, bottom) and dims the row (height, width, length):
    numpy stacks them so, every writer emits their keys in that order and every reader
    gives back the values written."""

    BOX = Box2D(600.5, 170.25, 700.0, 210.75)
    DIMS = Dimensions3D(1.5, 1.7, 4.2)

    def test_numpy_reads_the_field_order(self):
        assert np.asarray(self.BOX).tolist() == [600.5, 170.25, 700.0, 210.75]
        assert np.asarray(self.DIMS).tolist() == [1.5, 1.7, 4.2]
        assert np.array([self.BOX, self.BOX]).shape == (2, 4)

    def test_detections_write_and_read_the_field_order(self):
        rec = make_detection(box=self.BOX, dims=tuple(self.DIMS))
        obj = detection_to_json(rec)
        assert list(obj["box2d"].items()) == list(zip("ltrb", self.BOX))
        assert list(obj["dims"].items()) == list(zip("hwl", self.DIMS))
        (back,) = read_detections(write_detections([rec]))[rec.frame_id]
        assert (type(back.box2d), type(back.dims)) == (Box2D, Dimensions3D)
        assert (back.box2d, back.dims) == (self.BOX, self.DIMS)

    def test_map_writes_and_reads_the_field_order(self):
        lm = Landmark(landmark_id=0, global_pose=Pose(yaw_to_rotation(0.3), np.array([1.0, 2, 3])),
                      dims=self.DIMS, support=2, first_frame=0, last_frame=1, category="Car",
                      mean_score=0.9, observed_frames=(0, 1))
        assert list(landmark_to_json(lm)["dims"].items()) == list(zip("hwl", self.DIMS))
        (back,) = parse_landmarks(serialize_landmarks([lm]))
        assert type(back.dims) is Dimensions3D and back.dims == self.DIMS

    def test_dump_and_labels_write_and_read_the_field_order(self):
        ann = FrameAnnotation(frame_id=0, entries=[
            _entry(0, "Car", 2.0, 1.65, 20.0, 0.5, self.BOX, self.DIMS)])
        (entry,) = annotation_to_json(ann)["entries"]
        for key in ("box2d", "box2d_raw"):
            assert list(entry[key].items()) == list(zip("ltrb", self.BOX))
        assert list(entry["dims"].items()) == list(zip("hwl", self.DIMS))
        (back,) = read_annotation_dump(dump_text([ann]))[0].entries
        assert (back.box2d, back.box2d_raw, back.dims) == (self.BOX, self.BOX, self.DIMS)
        (label,) = parse_kitti_labels(write_kitti_labels(ann))
        assert (type(label.box2d), type(label.dims)) == (Box2D, Dimensions3D)
        assert (label.box2d, label.dims) == (self.BOX, self.DIMS)


# Edge values of a pose entry: signed zero, subnormals, the smallest normal and the range's ends.
_POSE_EDGES = [-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308]


def _pose_array(shape):
    """A float or an integer array of shape, floats mixed with the edge values."""
    return (hnp.arrays(np.float64, shape, elements=st.floats() | st.sampled_from(_POSE_EDGES))
            | hnp.arrays(np.int64, shape))


class TestPoseRow:
    """One pose row for the trajectory, the map and the dump; one reader of the map's and
    the dump's."""

    @staticmethod
    def _landmark(pose: Pose) -> Landmark:
        return Landmark(landmark_id=0, global_pose=pose, dims=Dimensions3D(1.5, 1.7, 4.2),
                        support=2, first_frame=0, last_frame=1, category="Car", mean_score=0.9,
                        observed_frames=(0, 1))

    @settings(max_examples=300, deadline=None)
    @given(rotation=_pose_array((3, 3)), translation=_pose_array((3,)))
    @example(rotation=np.array(_POSE_EDGES[:3] * 3).reshape(3, 3),
             translation=np.array(_POSE_EDGES[3:]))
    def test_bits_match_the_hstack_oracle(self, rotation, translation):
        pose = Pose(rotation, translation)
        got, want = pose_row(pose), oracle_pose_row(pose)
        assert [type(v) for v in got] == [float] * 12
        assert struct.pack("<12d", *got) == struct.pack("<12d", *want)

    def test_every_stored_pose_is_the_row(self):
        pose = Pose(yaw_to_rotation(0.3), np.array([1.0, -0.0, 20.5]))
        lm = self._landmark(pose)
        entry = _entry(0, "Car", 1.0, -0.0, 20.5, 0.3, TestRowLayout.BOX, lm.dims)
        row = oracle_pose_row(pose)
        assert serialize_trajectory(TrajectoryFile([pose])) == " ".join(map(repr, row)) + "\n"
        assert landmark_to_json(lm)["pose"] == row
        assert annotation_to_json(FrameAnnotation(0, [entry]))["entries"][0]["pose"] == row

    @pytest.mark.parametrize("rotation", [
        1.1 * np.eye(3), np.diag([1.0, 1.0, -1.0]), np.zeros((3, 3)),
        yaw_to_rotation(0.3) + 1e-6 * np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]]),
    ], ids=["scaled", "reflection", "zero", "off_by_1e-6"])
    def test_bad_rotation_is_one_error_in_a_map_and_a_dump(self, rotation):
        pose = Pose(rotation, np.array([1.0, 1.65, 20.0]))
        lm = self._landmark(pose)
        entry = _entry(0, "Car", 1.0, 1.65, 20.0, 0.0, TestRowLayout.BOX, lm.dims)
        dump = FrameAnnotation(0, [entry._replace(local_pose=pose)])
        errors = []
        for read, text in ((parse_landmarks, serialize_landmarks([lm])),
                           (read_annotation_dump, dump_text([dump]))):
            with pytest.raises(OrthonormalityError) as exc:
                read("# header\n" + text)
            errors.append(str(exc.value))
        assert errors[0] == errors[1] and errors[0].startswith("line 2: ")


def test_frame_file_name():
    assert frame_file_name(0) == "000000.txt"
    assert frame_file_name(1234) == "001234.txt"


@pytest.mark.parametrize("frame_id", [0, 7, 1234, 999999, 1234567])
def test_frame_id_of_inverts_frame_file_name(frame_id):
    assert frame_id_of(frame_file_name(frame_id)) == frame_id


@pytest.mark.parametrize("name", ["².txt", "١٢.txt", ".txt", "notes.txt", "-1.txt", "+1.txt",
                                  " 1.txt", "1_0.txt", "000010.TXT", "000010.txt.txt", "000010"])
def test_frame_id_of_is_none_for_other_names(name):
    # "²" and "١٢" pass str.isdigit, but are not ASCII digits.
    assert frame_id_of(name) is None
