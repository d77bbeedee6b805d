"""Map reprojection: local poses, visibility rules, provenance, dumps."""

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    P_OFFSET,
    P_SIMPLE,
    make_detection,
    make_observation,
    make_track,
    oracle_annotate_frame,
    oracle_box3d_corners,
    oracle_landmark_to_local,
    oracle_project_box,
    oracle_visible_entry,
)
from seqlabel import annotate
from seqlabel.annotate import (
    CAUSE_BEHIND,
    CAUSE_OFF_IMAGE,
    CAUSE_WINDOW,
    PROVENANCE_OBSERVED,
    PROVENANCE_PROJECTED,
    FrameAnnotation,
    VisibilityConfig,
    annotate_frame,
    annotate_sequence,
    annotation_from_detections,
    read_annotation_dump,
    write_annotation_dump,
)
from seqlabel.dataio import TrajectoryFile, write_kitti_labels
from seqlabel.errors import OrthonormalityError, SchemaError
from seqlabel.geometry import Pose, back_project, compose, yaw_to_rotation
from seqlabel.labels import Dimensions3D
from seqlabel.landmark import FusionConfig, Landmark, WeightPolicy, fuse_tracks

VIS = VisibilityConfig(image_width=1242, image_height=375, min_box_area=100,
                       frame_window=10, min_visible_fraction=0.25)

def make_landmark(x=0.0, y=1.65, z=30.0, yaw=0.0, first=0, last=9,
                  observed=None, landmark_id=0, dims=(1.5, 1.7, 4.2)):
    from seqlabel.geometry import yaw_to_rotation

    observed = tuple(range(first, last + 1)) if observed is None else tuple(observed)
    return Landmark(
        landmark_id=landmark_id,
        global_pose=Pose(yaw_to_rotation(yaw), np.array([x, y, z])),
        dims=Dimensions3D(*dims),
        support=len(observed),
        first_frame=first,
        last_frame=last,
        category="Car",
        mean_score=0.9,
        observed_frames=observed,
    )

def straight_trajectory(n):
    return TrajectoryFile([Pose(np.eye(3), np.array([0, 0, float(k)])) for k in range(n)])

def local_pose(lm, cam):
    """The camera-local pose the batched pass gives the landmark's one entry."""
    (entry,) = annotate_frame([lm], 0, cam, P_SIMPLE, VIS).entries
    return entry.local_pose


class TestLandmarkToLocal:
    def test_identity_camera(self):
        lm = make_landmark(z=15.0)
        local = local_pose(lm, Pose.identity())
        assert np.allclose(local.translation, lm.global_pose.translation)
        assert np.allclose(local.rotation, lm.global_pose.rotation)

    def test_translated_camera(self):
        lm = make_landmark(x=0.0, y=0.0, z=15.0)
        local = local_pose(lm, Pose(np.eye(3), np.array([0, 0, 5])))
        assert np.allclose(local.translation, [0, 0, 10])

    def test_round_trip_with_lift(self):
        cam = Pose(np.eye(3), np.array([2.0, 0.0, 7.0]))
        obs = make_observation(cam=cam, u=640.0, v=200.0, yaw=0.1, depth=20.0)
        lm = make_landmark()
        lm = lm._replace(global_pose=obs.global_pose)
        local = local_pose(lm, cam)
        # The lift's camera-local pose, by its definition.
        assert np.allclose(local.translation, back_project(640.0, 200.0, 20.0, P_SIMPLE),
                           atol=1e-9)
        assert np.allclose(local.rotation, yaw_to_rotation(0.1), atol=1e-9)

class TestAnnotateFrame:
    def test_visible_landmark_included(self):
        lm = make_landmark(z=10.0)
        ann = annotate_frame([lm], 0, Pose.identity(), P_SIMPLE, VIS)
        assert len(ann.entries) == 1
        entry = ann.entries[0]
        assert entry.depth == pytest.approx(10.0)
        assert entry.landmark_id == 0
        assert entry.category == "Car"

    def test_behind_camera_excluded(self):
        lm = make_landmark(z=-5.0)
        ann = annotate_frame([lm], 0, Pose.identity(), P_SIMPLE, VIS)
        assert not ann.entries
        assert ann.exclusions == [(0, CAUSE_BEHIND)]

    def test_frame_window_excludes_distant_frames(self):
        lm = make_landmark(first=100, last=120, z=500.0)
        ann = annotate_frame([lm], 50, Pose.identity(), P_SIMPLE, VIS)
        assert not ann.entries
        assert ann.exclusions == [(0, CAUSE_WINDOW)]
        # 90 is exactly at the window edge.
        ann = annotate_frame([lm], 90, Pose.identity(), P_SIMPLE, VIS)
        assert (0, CAUSE_WINDOW) not in ann.exclusions

    def test_off_image_excluded(self):
        lm = make_landmark(x=500.0, z=10.0, first=0, last=0)
        ann = annotate_frame([lm], 0, Pose.identity(), P_SIMPLE, VIS)
        assert not ann.entries
        assert ann.exclusions == [(0, CAUSE_OFF_IMAGE)]

    def test_tiny_box_excluded(self):
        cfg = VisibilityConfig(image_width=1242, image_height=375, min_box_area=100,
                               frame_window=10, min_visible_fraction=0.25)
        lm = make_landmark(z=2000.0, first=0, last=0)  # projects to a few px^2
        ann = annotate_frame([lm], 0, Pose.identity(), P_SIMPLE, cfg)
        assert ann.exclusions == [(0, CAUSE_OFF_IMAGE)]

    def test_composition_identity(self):
        lm = make_landmark(x=3.0, z=25.0, yaw=0.6)
        cam = Pose(np.eye(3), np.array([1.0, 0.0, 4.0]))
        ann = annotate_frame([lm], 2, cam, P_SIMPLE, VIS)
        entry = ann.entries[0]
        recomputed = oracle_project_box(
            oracle_box3d_corners(oracle_landmark_to_local(lm, cam), lm.dims), P_SIMPLE
        )
        for attr in ("left", "top", "right", "bottom"):
            assert getattr(entry.box2d_raw, attr) == pytest.approx(
                getattr(recomputed, attr), abs=1e-9
            )

    def test_box_stored_clipped(self):
        lm = make_landmark(x=-9.0, z=10.0)  # partially off the left edge
        ann = annotate_frame([lm], 0, Pose.identity(), P_SIMPLE, VIS)
        entry = ann.entries[0]
        assert entry.box2d.left == 0.0
        assert entry.box2d_raw.left < 0.0
        assert entry.visible_fraction < 1.0

    def test_provenance(self):
        lm = make_landmark(first=0, last=4, observed=(0, 1, 3, 4))
        cam = Pose.identity()
        at2 = annotate_frame([lm], 2, cam, P_SIMPLE, VIS).entries[0]
        at3 = annotate_frame([lm], 3, cam, P_SIMPLE, VIS).entries[0]
        assert at2.provenance == PROVENANCE_PROJECTED
        assert at3.provenance == PROVENANCE_OBSERVED

    def test_entries_sorted_by_landmark_id(self):
        lms = [make_landmark(landmark_id=2, x=4.0), make_landmark(landmark_id=0, x=-4.0)]
        ann = annotate_frame(lms, 0, Pose.identity(), P_SIMPLE, VIS)
        assert [e.landmark_id for e in ann.entries] == [0, 2]

    def test_yaw_local_from_camera_rotation(self):
        from seqlabel.geometry import yaw_to_rotation

        lm = make_landmark(yaw=0.8, z=30.0)
        cam = Pose(yaw_to_rotation(0.3), np.array([0, 0, 0]))
        ann = annotate_frame([lm], 0, cam, P_SIMPLE, VIS)
        assert ann.entries[0].yaw_local == pytest.approx(0.5, abs=1e-12)

class TestAnnotateSequence:
    def test_empty_map(self):
        anns = annotate_sequence([], straight_trajectory(5), P_SIMPLE, VIS)
        assert len(anns) == 5
        assert all(not a.entries for a in anns)
        assert [a.frame_id for a in anns] == list(range(5))

    def test_landmark_visible_every_frame(self):
        lm = make_landmark(z=40.0, first=0, last=9)
        anns = annotate_sequence([lm], straight_trajectory(10), P_SIMPLE, VIS)
        assert all(len(a.entries) == 1 for a in anns)
        # Depth decreases as the camera approaches.
        depths = [a.entries[0].depth for a in anns]
        assert depths == sorted(depths, reverse=True)

    def test_dropout_frame_still_annotated(self):
        # Observed at 0..9 except 5: frame 5 carries a projected entry.
        lm = make_landmark(z=40.0, observed=(0, 1, 2, 3, 4, 6, 7, 8, 9))
        anns = annotate_sequence([lm], straight_trajectory(10), P_SIMPLE, VIS)
        entry = anns[5].entries[0]
        assert entry.provenance == PROVENANCE_PROJECTED
        assert anns[4].entries[0].provenance == PROVENANCE_OBSERVED

    def test_frames_subset(self):
        lm = make_landmark(z=40.0)
        anns = annotate_sequence([lm], straight_trajectory(10), P_SIMPLE, VIS, frames=[2, 7])
        assert [a.frame_id for a in anns] == [2, 7]

    def test_overflowing_dims_only_excluded(self):
        # Finite sizes whose corners overflow in the projection: the landmark
        # is excluded in every frame, without a RuntimeWarning, and its
        # neighbour in the same batch keeps its entries.
        huge = make_landmark(landmark_id=0, dims=(1e308, 1e308, 1e308))
        lm = make_landmark(landmark_id=1, x=2.0)
        anns = annotate_sequence([huge, lm], straight_trajectory(12), P_SIMPLE, VIS)
        assert all([e.landmark_id for e in a.entries] == [1] for a in anns)
        for a in anns:
            (cause,) = [c for lid, c in a.exclusions if lid == 0]
            assert cause in (CAUSE_BEHIND, CAUSE_OFF_IMAGE)

class TestRecallOverDetections:
    def test_every_inlier_frame_annotated_or_explained(self):
        rng = np.random.default_rng(2)
        observations = [
            make_observation(frame_id=i, depth=30.0 + float(rng.normal(0, 0.3)), u=620.0)
            for i in range(8)
        ]
        track = make_track(observations)
        landmarks, _, _ = fuse_tracks([track], WeightPolicy("score"), FusionConfig())
        lm = landmarks[0]
        # conftest observations use an identity camera for every frame.
        traj = TrajectoryFile([Pose.identity() for _ in range(8)])
        for frame in lm.observed_frames:
            ann = annotate_frame(landmarks, frame, traj.pose(frame), P_SIMPLE, VIS)
            ids = [e.landmark_id for e in ann.entries]
            causes = dict(ann.exclusions)
            assert lm.landmark_id in ids or causes[lm.landmark_id] in (
                CAUSE_BEHIND, CAUSE_OFF_IMAGE,
            )

class TestRawDetectionRendering:
    def test_matches_single_observation_fusion(self):
        # A detection rendered directly equals the annotation of the landmark
        # fused from that single detection, byte-for-byte after formatting.
        det = make_detection(frame_id=0, depth=27.3, yaw=0.45, u=655.0, v=192.0, score=0.88)
        raw_ann = annotation_from_detections(0, [det], P_SIMPLE, VIS)

        track = make_track([make_observation(frame_id=0, depth=27.3, yaw=0.45,
                                             u=655.0, v=192.0, score=0.88)])
        landmarks, _, _ = fuse_tracks([track], WeightPolicy("score"), FusionConfig(min_support=1))
        fused_ann = annotate_frame(landmarks, 0, Pose.identity(), P_SIMPLE,
                                   VisibilityConfig(frame_window=0))
        assert write_kitti_labels(raw_ann) == write_kitti_labels(fused_ann)

    def test_invisible_detection_excluded(self):
        det = make_detection(frame_id=0, depth=2000.0)
        ann = annotation_from_detections(0, [det], P_SIMPLE, VIS)
        assert not ann.entries
        assert ann.exclusions[0][1] == CAUSE_OFF_IMAGE

class TestDump:
    def test_round_trip(self):
        lm = make_landmark(x=1.0, z=35.0, yaw=0.2, observed=(0, 2, 3))
        anns = annotate_sequence([lm], straight_trajectory(4), P_SIMPLE, VIS)
        again = read_annotation_dump(write_annotation_dump(anns))
        assert len(again) == len(anns)
        for a, b in zip(anns, again):
            assert a.frame_id == b.frame_id
            assert len(a.entries) == len(b.entries)
            for ea, eb in zip(a.entries, b.entries):
                assert ea.landmark_id == eb.landmark_id
                assert ea.provenance == eb.provenance
                assert np.array_equal(ea.local_pose.translation, eb.local_pose.translation)
                assert ea.depth == eb.depth
            assert a.exclusions == b.exclusions

    @pytest.mark.parametrize("edit, message", [
        (lambda a: a["entries"][0]["box2d"].update(l=50.0, r=5.0), "invalid box"),
        (lambda a: a["entries"][0]["box2d_raw"].update(l=50.0, r=5.0), "invalid box"),
        (lambda a: a["entries"][0]["dims"].update(h=-1.5), "dimensions must be strictly positive"),
        (lambda a: a.update(exclusions=5), "field 'exclusions' must be an array of"),
        (lambda a: a.update(exclusions=[[1]]), "field 'exclusions' must be an array of"),
        (lambda a: a.update(exclusions=[["a", "b"]]), "field 'exclusions[0][0]' must be an integer"),
        (lambda a: a.update(exclusions=[[1, 2]]), "field 'exclusions[0][1]' must be a string"),
        (lambda a: a.update(entries=5), "field 'entries' must be an array of objects"),
        (lambda a: a.update(entries=[5]), "field 'entries' must be an array of objects"),
    ], ids=["box2d", "box2d_raw", "dims", "exclusions", "pair", "landmark_id", "cause",
            "entries", "entry"])
    def test_broken_rule_is_a_schema_error_naming_the_line(self, edit, message):
        lm = make_landmark(x=1.0, z=35.0, yaw=0.2, observed=(0, 2, 3))
        lines = write_annotation_dump(
            annotate_sequence([lm], straight_trajectory(4), P_SIMPLE, VIS)).splitlines()
        record = json.loads(lines[1])
        edit(record)
        lines[1] = json.dumps(record)
        with pytest.raises(SchemaError) as exc:
            read_annotation_dump("\n".join(lines) + "\n")
        assert exc.value.line == 2 and message in exc.value.reason

    @pytest.mark.parametrize("scale, message", [
        (1.1, "rotation deviates from orthonormal"), (-1.0, "reflection"),
    ], ids=["scaled", "reflection"])
    def test_pose_follows_the_map_rotation_rule(self, scale, message):
        # parse_landmarks rejects these rotations (determinant 1.331 and -1); so does the dump.
        lm = make_landmark(x=1.0, z=35.0, yaw=0.2, observed=(0, 2, 3))
        lines = write_annotation_dump(
            annotate_sequence([lm], straight_trajectory(4), P_SIMPLE, VIS)).splitlines()
        record = json.loads(lines[1])
        pose = record["entries"][0]["pose"]
        for k in (0, 1, 2, 4, 5, 6, 8, 9, 10):  # the rotation block of the row-major 3x4
            pose[k] *= scale
        lines[1] = json.dumps(record)
        with pytest.raises(OrthonormalityError) as exc:
            read_annotation_dump("\n".join(lines) + "\n")
        assert exc.value.line == 2 and message in exc.value.reason

    def test_clipped_edge_written_as_float(self):
        # VIS gives the image size as ints; the clipped edge is still a float.
        lm = make_landmark(x=9.0, z=10.0)  # partially off the right edge
        ann = annotate_frame([lm], 0, Pose.identity(), P_SIMPLE, VIS)
        (entry,) = ann.entries
        assert entry.box2d_raw.right > 1242.0 and entry.box2d.right == 1242.0
        assert '"r": 1242.0,' in write_annotation_dump([ann])


def _finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def cameras(draw):
    """Any yaw, sometimes pitched and rolled as well."""
    tilt = st.one_of(st.just(0.0), _finite(-0.4, 0.4))
    c, s = math.cos(draw(tilt)), math.sin(draw(tilt))
    pitch = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    c, s = math.cos(draw(tilt)), math.sin(draw(tilt))
    roll = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    rotation = yaw_to_rotation(draw(_finite(-math.pi, math.pi))) @ pitch @ roll
    return Pose(rotation, np.array([draw(_finite(-50, 50)), draw(_finite(-2, 2)),
                                    draw(_finite(-50, 50))]))


# In front, straddling depth 0 or behind; laterally far enough to leave the image.
depths = st.one_of(_finite(3, 80), _finite(-3, 3), _finite(-60, -3))
dimensions = st.tuples(_finite(0.3, 3), _finite(0.3, 3), _finite(0.3, 6))
visibility_configs = st.builds(
    VisibilityConfig,
    image_width=st.sampled_from([1242, 1242.0, 640.5]),
    image_height=st.sampled_from([375, 375.0, 200.5]),
    min_box_area=_finite(1, 400),
    frame_window=st.integers(0, 5),
    min_visible_fraction=_finite(0.05, 1.0),
)


@st.composite
def landmark_frames(draw):
    """A camera, a projection, a visibility config, a frame id and up to 8 landmarks."""
    cam = draw(cameras())
    landmarks = []
    for landmark_id in draw(st.lists(st.integers(0, 50), unique=True, max_size=8)):
        local = Pose(yaw_to_rotation(draw(_finite(-math.pi, math.pi))),
                     np.array([draw(_finite(-40, 40)), draw(_finite(-3, 3)), draw(depths)]))
        first = draw(st.integers(0, 20))
        last = draw(st.integers(first, 25))
        observed = tuple(sorted(draw(st.sets(st.integers(first, last), max_size=4))))
        landmarks.append(Landmark(
            landmark_id=landmark_id, global_pose=compose(cam, local),
            dims=Dimensions3D(*draw(dimensions)), support=len(observed), first_frame=first,
            last_frame=last, category=draw(st.sampled_from(["Car", "Pedestrian"])),
            mean_score=draw(_finite(0, 1)), observed_frames=observed,
        ))
    return (cam, draw(st.sampled_from([P_SIMPLE, P_OFFSET])), draw(visibility_configs),
            draw(st.integers(0, 25)), landmarks)


def _oracle_annotation(frame_id, candidates, P, cfg):
    annotation = FrameAnnotation(frame_id, [], [])
    for landmark_id, *rest in candidates:
        entry, cause = oracle_visible_entry(landmark_id, *rest, P, cfg)
        if entry is None:
            annotation.exclusions.append((landmark_id, cause))
        else:
            annotation.entries.append(entry)
    return annotation


class TestSharedProjectionOracle:
    """The batched visibility pass against the scalar one-landmark-at-a-time oracle."""

    @given(landmark_frames())
    @settings(max_examples=200, deadline=None)
    def test_annotate_frame_matches_oracle(self, scene):
        cam, P, cfg, frame_id, landmarks = scene
        want = oracle_annotate_frame(landmarks, frame_id, cam, P, cfg)
        got = annotate_frame(landmarks, frame_id, cam, P, cfg)
        assert write_annotation_dump([got]) == write_annotation_dump([want])

    @given(st.lists(st.tuples(_finite(-400, 1700), _finite(-200, 600), depths,
                              _finite(-math.pi, math.pi), dimensions), max_size=8),
           st.sampled_from([P_SIMPLE, P_OFFSET]), visibility_configs)
    @settings(max_examples=200, deadline=None)
    def test_annotation_from_detections_matches_oracle(self, raw, P, cfg):
        detections = [make_detection(frame_id=3, u=u, v=v, depth=depth, yaw=yaw, dims=dims)
                      for u, v, depth, yaw, dims in raw]
        candidates = [
            (i, d.category,
             Pose(yaw_to_rotation(d.yaw), back_project(d.center2d[0], d.center2d[1], d.depth, P)),
             d.dims, d.score, PROVENANCE_OBSERVED)
            for i, d in enumerate(detections)
        ]
        want = _oracle_annotation(3, candidates, P, cfg)
        got = annotation_from_detections(3, detections, P, cfg)
        assert write_annotation_dump([got]) == write_annotation_dump([want])


@st.composite
def camera_paths(draw):
    """A trajectory of 1 to 12 frames: a yawed, pitched or rolled start that turns and moves."""
    start = draw(cameras())
    turn, step = draw(_finite(-0.2, 0.2)), draw(_finite(-3, 3))
    return TrajectoryFile([compose(start, Pose(yaw_to_rotation(k * turn),
                                               np.array([0.0, 0.0, k * step])))
                           for k in range(draw(st.integers(1, 12)))])


@st.composite
def sequence_scenes(draw):
    """A camera path, a projection, a visibility config, a frame list (None: every
    frame) and up to 6 landmarks around the start, some sharing an id."""
    trajectory = draw(camera_paths())
    n = len(trajectory)
    landmarks = []
    for landmark_id in draw(st.lists(st.integers(0, 6), max_size=6)):
        local = Pose(yaw_to_rotation(draw(_finite(-math.pi, math.pi))),
                     np.array([draw(_finite(-40, 40)), draw(_finite(-3, 3)), draw(depths)]))
        first = draw(st.integers(0, n + 2))
        last = draw(st.integers(first, n + 4))
        observed = tuple(sorted(draw(st.sets(st.integers(first, last), max_size=4))))
        landmarks.append(Landmark(
            landmark_id=landmark_id, global_pose=compose(trajectory.pose(0), local),
            dims=Dimensions3D(*draw(dimensions)), support=len(observed), first_frame=first,
            last_frame=last, category=draw(st.sampled_from(["Car", "Pedestrian"])),
            mean_score=draw(_finite(0, 1)), observed_frames=observed,
        ))
    frames = draw(st.one_of(st.none(), st.lists(st.integers(0, n - 1), max_size=8)))
    return (trajectory, draw(st.sampled_from([P_SIMPLE, P_OFFSET])), draw(visibility_configs),
            frames, landmarks)


def _assert_sequence_matches_oracle(landmarks, trajectory, P, cfg, frames=None):
    got = annotate_sequence(landmarks, trajectory, P, cfg, frames)
    want = [oracle_annotate_frame(landmarks, k, trajectory.pose(k), P, cfg)
            for k in (range(len(trajectory)) if frames is None else frames)]
    # One line per frame: a failure names the first differing frame.
    assert write_annotation_dump(got).splitlines() == write_annotation_dump(want).splitlines()
    assert [write_kitti_labels(a) for a in got] == [write_kitti_labels(a) for a in want]


class TestSequenceOracle:
    """annotate_sequence, frame by frame, against the scalar per-frame oracle."""

    @given(sequence_scenes(), st.sampled_from([1, 2, 5, annotate.BLOCK_FRAMES]))
    @settings(max_examples=150, deadline=None)
    def test_matches_oracle(self, scene, block):
        trajectory, P, cfg, frames, landmarks = scene
        # Small blocks put block seams inside these short sequences.
        with mock.patch.object(annotate, "BLOCK_FRAMES", block):
            _assert_sequence_matches_oracle(landmarks, trajectory, P, cfg, frames)

    def test_longer_than_one_block(self):
        n = 2 * annotate.BLOCK_FRAMES + 5
        trajectory = TrajectoryFile([Pose(yaw_to_rotation(0.01 * k),
                                          np.array([0.3 * k, 0.0, 1.5 * k]))
                                     for k in range(n)])
        landmarks = [
            make_landmark(landmark_id=j % 7, x=(-1) ** j * (3.0 + j % 5), z=12.0 + 4.5 * j,
                          yaw=0.3 * j, first=max(0, 3 * j - 20), last=min(n - 1, 3 * j + 5),
                          observed=range(3 * j - 20, 3 * j + 5, 3))
            for j in range(40)
        ]
        _assert_sequence_matches_oracle(landmarks, trajectory, P_OFFSET, VIS)
        _assert_sequence_matches_oracle(landmarks, trajectory, P_SIMPLE, VIS,
                                        frames=[n - 1, 0, annotate.BLOCK_FRAMES, 3, 3])
