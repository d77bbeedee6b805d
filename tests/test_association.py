"""Data association: lifting, cost combination, optimal assignment, tracking."""

import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from conftest import (
    P_OFFSET,
    P_SIMPLE,
    OracleTrack,
    make_detection,
    make_observation,
    make_track,
    oracle_box3d_corners,
    oracle_fuse,
    oracle_project_box,
    oracle_run_association,
    oracle_track_add,
    scoring_rows,
)
from seqlabel import association
from seqlabel.association import (
    _BIG,
    INFEASIBLE,
    AssociationConfig,
    Observation,
    _Rows,
    association_cost,
    cost_matrix,
    lift_detection,
    min_cost_assignment,
    run_association,
    solve_assignment,
)
from seqlabel.config import load_config
from seqlabel.dataio import TrajectoryFile
from seqlabel.errors import ConfigError, DegenerateProjection, MissingCameraPose
from seqlabel.geometry import (
    Pose,
    back_project,
    compose,
    inverse,
    project_point,
    yaw_to_rotation,
)
from seqlabel.labels import Box2D, Dimensions3D, iou_2d
from seqlabel.landmark import (
    FusionConfig,
    Landmark,
    WeightPolicy,
    fuse_track,
    observation_weight,
    reject_outliers,
)
from seqlabel.simulator import SimConfig, generate

def _cosine(a, b):
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return None
    return float(np.dot(a, b) / (na * nb))


def oracle_cost(track, obs, P, cam, cfg):
    """One pair at a time, with the scalar geometry helpers: the reference
    that cost_matrix must reproduce (INFEASIBLE where it has _BIG) for the
    running estimate of track, an OracleTrack."""
    if track.observations[0].detection.category != obs.detection.category:
        return INFEASIBLE

    local = compose(inverse(cam), track.fused_pose)
    box = oracle_project_box(oracle_box3d_corners(local, track.fused_dims), P)
    try:
        iou = 0.0 if box is None else iou_2d(box, obs.detection.box2d)
    except DegenerateProjection:
        iou = 0.0

    dist = float(np.linalg.norm(track.fused_pose.translation - obs.global_pose.translation))
    if iou < cfg.iou_gate and dist > cfg.dist_gate:
        return INFEASIBLE

    iou_term = 1.0 - iou
    dist_term = min(1.0, dist / cfg.dist_gate)

    cos = None
    t_desc = next((o.detection.descriptor for o in reversed(track.observations)
                   if o.detection.descriptor is not None), None)
    o_desc = obs.detection.descriptor
    if t_desc is not None and o_desc is not None:
        cos = _cosine(t_desc, o_desc)
    if cos is None:
        wi = cfg.w_iou / (cfg.w_iou + cfg.w_dist)
        wd = cfg.w_dist / (cfg.w_iou + cfg.w_dist)
        return wi * iou_term + wd * dist_term
    desc_term = 1.0 - min(max(cos, 0.0), 1.0) if cos >= cfg.descriptor_gate else 1.0
    return cfg.w_iou * iou_term + cfg.w_dist * dist_term + cfg.w_desc * desc_term


def brute_force_assignment(cost):
    """Enumerate every injection of the smaller side into the larger."""
    n_rows, n_cols = cost.shape
    best = None
    if n_rows <= n_cols:
        for perm in itertools.permutations(range(n_cols), n_rows):
            pairs = [(i, j) for i, j in enumerate(perm) if cost[i, j] < _BIG]
            total = sum(cost[i, j] for i, j in pairs)
            penalty = (min(n_rows, n_cols) - len(pairs)) * _BIG
            if best is None or total + penalty < best[0]:
                best = (total + penalty, pairs)
    else:
        for perm in itertools.permutations(range(n_rows), n_cols):
            pairs = [(i, j) for j, i in enumerate(perm) if cost[i, j] < _BIG]
            total = sum(cost[i, j] for i, j in pairs)
            penalty = (min(n_rows, n_cols) - len(pairs)) * _BIG
            if best is None or total + penalty < best[0]:
                best = (total + penalty, pairs)
    return best[1]

class TestLiftDetection:
    def test_principal_point_on_axis(self):
        obs = make_observation(u=600.0, v=180.0, depth=10.0)
        assert np.allclose(obs.global_pose.translation, [0, 0, 10], atol=1e-12)

    def test_camera_translation_composes(self):
        cam = Pose(np.eye(3), np.array([0, 0, 5]))
        obs = make_observation(cam=cam, u=600.0, v=180.0, depth=10.0)
        assert np.allclose(obs.global_pose.translation, [0, 0, 15], atol=1e-12)

    def test_local_global_consistency(self):
        cam = Pose(np.eye(3), np.array([3, 0, 7]))
        obs = make_observation(cam=cam, u=650.0, v=190.0, yaw=0.4, depth=24.0)
        local = Pose(yaw_to_rotation(0.4), back_project(650.0, 190.0, 24.0, P_SIMPLE))
        recomposed = compose(cam, local)
        assert np.allclose(recomposed.translation, obs.global_pose.translation, atol=1e-9)
        assert np.allclose(recomposed.rotation, obs.global_pose.rotation, atol=1e-12)

    def test_projection_round_trip(self):
        cam = Pose(yaw_to_rotation(0.3), np.array([2, 0, 5]))
        obs = make_observation(cam=cam, u=712.0, v=204.5, depth=18.0)
        u, v, z = project_point(inverse(cam).apply(obs.global_pose.translation), P_SIMPLE)
        assert (u, v, z) == pytest.approx((712.0, 204.5, 18.0), abs=1e-9)

def _estimate(observations):
    """The running estimate (OracleTrack) of a track of these observations."""
    track = OracleTrack()
    for obs in observations:
        oracle_track_add(track, obs)
    return track


def _cost(track, obs, P, cam, cfg):
    """association_cost of one running estimate (OracleTrack) and one observation."""
    return association_cost(*scoring_rows([track], [obs]), P, cam, cfg)


def _track_box(track, cam=None):
    cam = cam or Pose.identity()
    local = compose(inverse(cam), track.fused_pose)
    return oracle_project_box(oracle_box3d_corners(local, track.fused_dims), P_SIMPLE)

class TestAssociationCost:
    def test_perfect_match_zero_cost(self):
        track = _estimate([make_observation(frame_id=0, depth=20.0)])
        tbox = _track_box(track)
        det = make_detection(frame_id=1, depth=20.0, box=tbox)
        obs = lift_detection(det, P_SIMPLE, Pose.identity())
        cfg = AssociationConfig(w_iou=0.5, w_dist=0.5, w_desc=0.0)
        assert _cost(track, obs, P_SIMPLE, Pose.identity(), cfg) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_both_gates_fail_infeasible(self):
        track = _estimate([make_observation(frame_id=0, depth=20.0)])
        # Disjoint box and 6 m away with dist_gate 3.
        det = make_detection(frame_id=1, depth=26.0, u=60.0,
                             box=Box2D(0.0, 0.0, 10.0, 10.0))
        obs = lift_detection(det, P_SIMPLE, Pose.identity())
        cfg = AssociationConfig()
        assert _cost(track, obs, P_SIMPLE, Pose.identity(), cfg) is INFEASIBLE

    def test_formula_half_iou_half_gate_distance(self):
        track = _estimate([make_observation(frame_id=0, depth=20.0, u=600.0, v=180.0)])
        tbox = _track_box(track)
        # Shift by a third of the width: IoU exactly (2/3)/(4/3) = 0.5.
        shift = (tbox.right - tbox.left) / 3.0
        shifted = Box2D(tbox.left + shift, tbox.top, tbox.right + shift, tbox.bottom)
        # Same ray, 1.5 m deeper: global distance = 0.5 * dist_gate.
        det = make_detection(frame_id=1, depth=21.5, u=600.0, v=180.0, box=shifted)
        obs = lift_detection(det, P_SIMPLE, Pose.identity())
        cfg = AssociationConfig(w_iou=0.5, w_dist=0.5, w_desc=0.0)
        cost = _cost(track, obs, P_SIMPLE, Pose.identity(), cfg)
        assert cost == pytest.approx(0.5 * 0.5 + 0.5 * 0.5, abs=1e-9)

    def test_category_mismatch_infeasible(self):
        track = _estimate([make_observation(frame_id=0)])
        det = make_detection(frame_id=1, category="Pedestrian")
        obs = lift_detection(det, P_SIMPLE, Pose.identity())
        assert _cost(track, obs, P_SIMPLE, Pose.identity(), AssociationConfig()) is INFEASIBLE

    def test_descriptor_similarity_term(self):
        track = _estimate([make_observation(frame_id=0, depth=20.0, descriptor=[1.0, 0.0])])
        tbox = _track_box(track)
        cfg = AssociationConfig(w_iou=0.4, w_dist=0.4, w_desc=0.2)

        same = lift_detection(
            make_detection(frame_id=1, depth=20.0, box=tbox, descriptor=[2.0, 0.0]),
            P_SIMPLE, Pose.identity())
        assert _cost(track, same, P_SIMPLE, Pose.identity(), cfg) == pytest.approx(
            0.0, abs=1e-12)

        # Orthogonal descriptor: similarity 0 < gate, term saturates at 1.
        ortho = lift_detection(
            make_detection(frame_id=1, depth=20.0, box=tbox, descriptor=[0.0, 1.0]),
            P_SIMPLE, Pose.identity())
        assert _cost(track, ortho, P_SIMPLE, Pose.identity(), cfg) == pytest.approx(
            0.2, abs=1e-12)

    def test_missing_descriptor_renormalizes(self):
        track = _estimate([make_observation(frame_id=0, depth=20.0)])
        tbox = _track_box(track)
        shift = (tbox.right - tbox.left) / 3.0
        shifted = Box2D(tbox.left + shift, tbox.top, tbox.right + shift, tbox.bottom)
        det = make_detection(frame_id=1, depth=20.0, box=shifted, descriptor=[1.0, 0.0])
        obs = lift_detection(det, P_SIMPLE, Pose.identity())
        cfg = AssociationConfig(w_iou=0.5, w_dist=0.4, w_desc=0.1)
        # Track has no descriptor: weights renormalize to (5/9, 4/9).
        want = (0.5 / 0.9) * 0.5 + (0.4 / 0.9) * 0.0
        assert _cost(track, obs, P_SIMPLE, Pose.identity(), cfg) == pytest.approx(
            want, abs=1e-9)

    def test_weights_must_sum_to_one(self, tmp_path):
        config = tmp_path / "pipeline.yaml"
        config.write_text("association: {w_iou: 0.5, w_dist: 0.4, w_desc: 0.2}\n")
        with pytest.raises(ConfigError, match=r"association\.w_iou \+ w_dist \+ w_desc must sum"):
            load_config(config)

class TestSolveAssignment:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 5))
            cost = rng.uniform(0, 1, size=(n, m))
            infeasible = rng.uniform(size=(n, m)) < 0.2
            cost[infeasible] = _BIG
            got = solve_assignment(cost)
            want = brute_force_assignment(cost)
            got_total = sum(cost[i, j] for i, j in got)
            want_total = sum(cost[i, j] for i, j in want)
            assert len(got) == len(want)
            assert got_total == pytest.approx(want_total, abs=1e-12)

    def test_spec_cross_example(self):
        # Greedy would take 0.1 then 0.9 (total 1.0); the optimum is 0.35.
        cost = np.array([[0.1, 0.2], [0.15, 0.9]])
        pairs = solve_assignment(cost)
        assert sorted(pairs) == [(0, 1), (1, 0)]

@st.composite
def cost_matrices(draw):
    """Wide, tall, square and 1 x n matrices of uniform, tied, constant or
    mostly-_BIG costs."""
    n_rows, n_cols = draw(st.sampled_from([
        (draw(st.integers(1, 7)), draw(st.integers(1, 7))),
        (1, draw(st.integers(1, 7))),
        (draw(st.integers(1, 7)), 1),
    ]))
    cells = n_rows * n_cols
    kind = draw(st.sampled_from(["uniform", "ties", "constant", "big"]))
    if kind == "uniform":
        values = draw(st.lists(_finite(0, 1), min_size=cells, max_size=cells))
    elif kind == "ties":
        values = draw(st.lists(st.integers(0, 3), min_size=cells, max_size=cells))
    elif kind == "constant":
        values = [draw(st.sampled_from([0.0, 0.5, 1.0, _BIG]))] * cells
    else:
        values = draw(st.lists(st.one_of(st.just(_BIG), st.just(_BIG), _finite(0, 1)),
                               min_size=cells, max_size=cells))
    return np.array(values, dtype=float).reshape(n_rows, n_cols)


class TestAssignmentOracle:
    """The built-in solver picks exactly what scipy's linear_sum_assignment picks."""

    @given(cost_matrices())
    @settings(max_examples=300, deadline=None)
    def test_same_rows_and_columns_as_scipy(self, cost):
        rows, cols = linear_sum_assignment(cost)
        assert min_cost_assignment(cost) == (rows.tolist(), cols.tolist())
        assert solve_assignment(cost) == [
            (i, j) for i, j in zip(rows.tolist(), cols.tolist()) if cost[i, j] < _BIG]

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_empty_matrix(self, shape):
        cost = np.zeros(shape)
        rows, cols = linear_sum_assignment(cost)
        assert rows.size == cols.size == 0
        assert min_cost_assignment(cost) == ([], [])
        assert solve_assignment(cost) == []

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    def test_nan_and_negative_infinity_raise(self, bad):
        cost = np.array([[0.1, 0.2], [0.3, bad]])
        with pytest.raises(ValueError):
            linear_sum_assignment(cost)
        with pytest.raises(ValueError, match="NaN or -inf"):
            min_cost_assignment(cost)

    def test_infeasible_matrix_raises(self):
        cost = np.array([[math.inf, math.inf], [0.1, 0.2]])
        with pytest.raises(ValueError):
            linear_sum_assignment(cost)
        with pytest.raises(ValueError, match="infeasible"):
            min_cost_assignment(cost)

    def test_constant_matrix_gives_the_identity(self):
        assert min_cost_assignment(np.ones((3, 4))) == ([0, 1, 2], [0, 1, 2])
        assert min_cost_assignment(np.ones((4, 3))) == ([0, 1, 2], [0, 1, 2])


def _frames(*frames):
    """Detections by frame id, from (frame id, detections), and an identity-camera trajectory."""
    return dict(frames), TrajectoryFile([Pose.identity()] * (max(f for f, _ in frames) + 1))


def _frame_ids(track):
    return [o.frame_id for o in track.observations]


class TestAssociateFrame:
    """One frame's matching, through run_association on a sequence that sets it up."""

    CFG = AssociationConfig(w_iou=0.5, w_dist=0.5, w_desc=0.0)

    def test_single_track_single_detection(self):
        first = make_detection(frame_id=0, depth=20.0)
        box = _track_box(_estimate([lift_detection(first, P_SIMPLE, Pose.identity())]))
        second = make_detection(frame_id=1, depth=20.0, box=box)
        tracks = run_association(*_frames((0, [first]), (1, [second])), P_SIMPLE, self.CFG)
        assert len(tracks) == 1
        assert _frame_ids(tracks[0]) == [0, 1]

    def test_no_tracks_spawns_all(self):
        dets = [make_detection(frame_id=0, u=300.0 + 200 * i, depth=20.0) for i in range(3)]
        tracks = run_association(*_frames((0, dets)), P_SIMPLE, self.CFG)
        assert [t.track_id for t in tracks] == [0, 1, 2]
        assert [t.observations[0].detection for t in tracks] == dets

    def test_global_optimum_beats_greedy(self):
        # Two tracks and two detections arranged so the globally optimal
        # assignment differs from greedy lowest-cost-first.
        a, b = (make_detection(frame_id=0, depth=depth) for depth in (30.0, 30.9))
        track_a, track_b = (_estimate([lift_detection(d, P_SIMPLE, Pose.identity())])
                            for d in (a, b))
        d1 = make_detection(frame_id=1, depth=30.3, box=_track_box(track_a))
        d2 = make_detection(frame_id=1, depth=29.1, box=_track_box(track_a))
        obs = {
            d.depth: lift_detection(d, P_SIMPLE, Pose.identity()) for d in (d1, d2)
        }
        c = {
            (i, d.depth): _cost(t, obs[d.depth], P_SIMPLE, Pose.identity(), self.CFG)
            for i, t in enumerate((track_a, track_b)) for d in (d1, d2)
        }
        greedy_total = c[(0, 30.3)] + c[(1, 29.1)]   # greedy takes A->d1 first
        optimal_total = c[(0, 29.1)] + c[(1, 30.3)]
        assert c[(0, 30.3)] < min(c[(0, 29.1)], c[(1, 30.3)], c[(1, 29.1)])
        assert optimal_total < greedy_total  # fixture really is crossed

        tracks = run_association(*_frames((0, [a, b]), (1, [d1, d2])), P_SIMPLE, self.CFG)
        assert [t.observations[-1].detection.depth for t in tracks] == [29.1, 30.3]

    def test_frozen_track_not_matchable(self):
        cfg = AssociationConfig(max_frame_gap=5, w_iou=0.5, w_dist=0.5, w_desc=0.0)
        first = make_detection(frame_id=0, depth=20.0)
        box = _track_box(_estimate([lift_detection(first, P_SIMPLE, Pose.identity())]))
        det = make_detection(frame_id=10, depth=20.0, box=box)
        tracks = run_association(*_frames((0, [first]), (10, [det])), P_SIMPLE, cfg)
        assert [_frame_ids(t) for t in tracks] == [[0], [10]]
        det = make_detection(frame_id=5, depth=20.0, box=box)
        within_gap = run_association(*_frames((0, [first]), (5, [det])), P_SIMPLE, cfg)
        assert [_frame_ids(t) for t in within_gap] == [[0, 5]]

def _simulated_sequence(n_frames=10, objects=((0.0, 30.0), (15.0, 55.0)), jitter=0.0, seed=0):
    """Camera drives +z at 1 m/frame; objects are (x, z) on the ground."""
    rng = np.random.default_rng(seed)
    poses = [Pose(np.eye(3), np.array([0, 0, float(k)])) for k in range(n_frames)]
    detections = {}
    for k in range(n_frames):
        cam = poses[k]
        frame = []
        for oid, (x, z) in enumerate(objects):
            local = inverse(cam).apply(np.array([x, 1.65, z]))
            depth = float(local[2]) + float(rng.normal(0, jitter))
            u, v, _ = project_point(local, P_SIMPLE)
            box = oracle_project_box(
                oracle_box3d_corners(Pose(np.eye(3), local), Dimensions3D(1.5, 1.7, 4.2)),
                P_SIMPLE,
            )
            frame.append(
                make_detection(frame_id=k, depth=depth, u=float(u), v=float(v),
                               box=box, gt_id=oid)
            )
        detections[k] = frame
    return TrajectoryFile(poses), detections

class TestRunAssociation:
    CFG = AssociationConfig(w_iou=0.5, w_dist=0.5, w_desc=0.0)

    def test_single_object_single_track(self):
        traj, dets = _simulated_sequence(objects=((0.0, 30.0),))
        tracks = run_association(dets, traj, P_SIMPLE, self.CFG)
        assert len(tracks) == 1
        assert len(tracks[0].observations) == 10

    def test_two_far_objects_two_clean_tracks(self):
        traj, dets = _simulated_sequence()
        tracks = run_association(dets, traj, P_SIMPLE, self.CFG)
        assert len(tracks) == 2
        for t in tracks:
            ids = {o.detection.gt_id for o in t.observations}
            assert len(ids) == 1  # no cross contamination

    def test_track_takes_frames_in_ascending_order(self):
        track = make_track([make_observation(frame_id=3)], track_id=7)
        for frame_id in (3, 2):
            with pytest.raises(ValueError, match="track 7: observation for frame "
                                                 f"{frame_id} not after frame 3"):
                track.add(make_observation(frame_id=frame_id))
        track.add(make_observation(frame_id=4))
        assert _frame_ids(track) == [3, 4]

    def test_empty_detections(self):
        traj, _ = _simulated_sequence()
        assert run_association({}, traj, P_SIMPLE, self.CFG) == []

    def test_partition_property(self):
        traj, dets = _simulated_sequence(jitter=0.2, seed=3)
        tracks = run_association(dets, traj, P_SIMPLE, self.CFG)
        tracked = [id(o.detection) for t in tracks for o in t.observations]
        retained = [id(d) for frame in dets.values() for d in frame
                    if d.score >= self.CFG.score_threshold]
        assert sorted(tracked) == sorted(retained)

    def test_score_threshold_filters(self):
        traj, dets = _simulated_sequence(objects=((0.0, 30.0),))
        for frame in dets.values():
            frame[0] = make_detection(frame_id=frame[0].frame_id, depth=frame[0].depth,
                                      u=frame[0].center2d[0], box=frame[0].box2d,
                                      score=0.2)
        assert run_association(dets, traj, P_SIMPLE, self.CFG) == []

    def test_determinism(self):
        traj, dets = _simulated_sequence(jitter=0.3, seed=9)
        a = run_association(dets, traj, P_SIMPLE, self.CFG)
        b = run_association(dets, traj, P_SIMPLE, self.CFG)
        sig_a = [(t.track_id, _frame_ids(t)) for t in a]
        sig_b = [(t.track_id, _frame_ids(t)) for t in b]
        assert sig_a == sig_b

    def test_gate_soundness(self):
        traj, dets = _simulated_sequence(jitter=0.4, seed=12)
        tracks = run_association(dets, traj, P_SIMPLE, self.CFG)
        # Recheck every consecutive match: never both gates failed.
        for t in tracks:
            for prev, obs in zip(t.observations, t.observations[1:]):
                dist = np.linalg.norm(prev.global_pose.translation
                                      - obs.global_pose.translation)
                # The predicted box gate is looser than this raw check, so a
                # distance within the gate is already sound; large distances
                # must have been admitted by the IoU gate.
                if dist > self.CFG.dist_gate:
                    cam = traj.pose(obs.frame_id)
                    local = compose(inverse(cam), prev.global_pose)
                    box = oracle_project_box(oracle_box3d_corners(local, prev.detection.dims),
                                             P_SIMPLE)
                    assert iou_2d(box, obs.detection.box2d) >= self.CFG.iou_gate

    def test_missing_camera_pose(self):
        traj, dets = _simulated_sequence(n_frames=5, objects=((0.0, 30.0),))
        dets[99] = [make_detection(frame_id=99, depth=20.0)]
        with pytest.raises(MissingCameraPose):
            run_association(dets, traj, P_SIMPLE, self.CFG)


def _finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _observation(frame_id, global_pose, *, category="Car", dims=(1.5, 1.7, 4.2), score=0.9,
                 descriptor=None, box=Box2D(0.0, 0.0, 1.0, 1.0)):
    """An observation placed directly at a global pose."""
    det = make_detection(frame_id=frame_id, category=category, dims=dims, score=score,
                         descriptor=descriptor, box=box)
    return Observation(det, global_pose)


@st.composite
def cameras(draw):
    """Yaw anywhere, sometimes a pitch as well, anywhere on the ground plane."""
    pitch = draw(st.one_of(st.just(0.0), _finite(0.02, 0.3), _finite(-0.3, -0.02)))
    c, s = math.cos(pitch), math.sin(pitch)
    tilt = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    rotation = yaw_to_rotation(draw(_finite(-math.pi, math.pi))) @ tilt
    return Pose(rotation, np.array([draw(_finite(-50, 50)), draw(_finite(-2, 2)),
                                    draw(_finite(-50, 50))]))


descriptors = st.one_of(
    st.none(), st.just([0.0, 0.0, 0.0]), st.lists(_finite(-1, 1), min_size=3, max_size=3)
)
dimensions = st.tuples(_finite(0.5, 3), _finite(0.5, 3), _finite(0.5, 6))


@st.composite
def scenes(draw):
    """A camera, the running estimates of its live tracks and one frame's observations.

    Track centers sit in front of the camera, straddling depth 0 or behind
    it; an observation either reuses a track's predicted box, jittered, or
    takes an arbitrary one (zero width or height included), and lies within
    a few meters of a track so both gates are exercised.
    """
    cam = draw(cameras())
    P = draw(st.sampled_from([P_SIMPLE, P_OFFSET]))
    tracks, centers = [], []
    for _ in range(draw(st.integers(1, 4))):
        x = draw(_finite(-15, 15))
        z = draw(st.one_of(_finite(3, 40), _finite(-3, 3), _finite(-30, -3)))
        yaw = draw(_finite(-math.pi, math.pi))
        category = draw(st.sampled_from(["Car", "Car", "Pedestrian"]))
        track = OracleTrack()
        for k in range(draw(st.integers(1, 3))):
            local = Pose(yaw_to_rotation(yaw + draw(_finite(-0.2, 0.2))),
                         np.array([x + draw(_finite(-0.5, 0.5)), 1.65,
                                   z + draw(_finite(-0.5, 0.5))]))
            oracle_track_add(track, _observation(
                k, compose(cam, local), category=category, dims=draw(dimensions),
                score=draw(_finite(0.05, 1)), descriptor=draw(descriptors)))
        tracks.append(track)
        centers.append((x, z))

    observations = []
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(tracks) - 1))
        base, (x, z) = tracks[i], centers[i]
        local = Pose(np.eye(3),
                     np.array([x + draw(_finite(-5, 5)), 1.65, z + draw(_finite(-5, 5))]))
        tb = oracle_project_box(oracle_box3d_corners(compose(inverse(cam), base.fused_pose),
                                                     base.fused_dims), P)
        if tb is not None and draw(st.booleans()):
            l, t, r, b = (v + draw(_finite(-30, 30)) for v in (tb.left, tb.top, tb.right, tb.bottom))
            box = Box2D(min(l, r), min(t, b), max(l, r), max(t, b))
        else:
            l, t = draw(_finite(-100, 1300)), draw(_finite(-50, 400))
            w = draw(st.one_of(st.just(0.0), _finite(0, 400)))
            h = draw(st.one_of(st.just(0.0), _finite(0, 200)))
            box = Box2D(l, t, l + w, t + h)
        observations.append(_observation(
            9, compose(cam, local), category=draw(st.sampled_from(["Car", "Car", "Pedestrian"])),
            descriptor=draw(descriptors), box=box))

    w_desc = draw(st.sampled_from([0.0, 0.1, 0.3]))
    w_iou = (1.0 - w_desc) * draw(_finite(0.1, 0.9))
    cfg = AssociationConfig(iou_gate=draw(_finite(0, 1)), dist_gate=draw(_finite(0.5, 6)),
                            descriptor_gate=draw(_finite(0, 1)),
                            w_iou=w_iou, w_dist=1.0 - w_desc - w_iou, w_desc=w_desc)
    return tracks, observations, P, cam, cfg


class TestCostMatrix:
    @given(scenes())
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_oracle(self, scene):
        tracks, observations, P, cam, cfg = scene
        got = cost_matrix(*scoring_rows(tracks, observations), P, cam, cfg)
        assert got.shape == (len(tracks), len(observations))
        for i, track in enumerate(tracks):
            for j, obs in enumerate(observations):
                want = oracle_cost(track, obs, P, cam, cfg)
                assert (got[i, j] >= _BIG) == (want is INFEASIBLE), (i, j, got[i, j], want)
                if want is not INFEASIBLE:
                    assert abs(got[i, j] - want) <= 1e-12, (i, j, got[i, j], want)

    def test_track_behind_camera_scores_iou_zero(self):
        # The track sits 5 m behind the camera and the detection 2 m from it:
        # only the distance gate admits the pair, with the IoU term at 1.
        track = _estimate([_observation(0, Pose(np.eye(3), np.array([0.0, 1.65, -5.0])))])
        obs = _observation(1, Pose(np.eye(3), np.array([0.0, 1.65, -3.0])),
                           box=Box2D(500, 100, 700, 300))
        cfg = AssociationConfig(w_iou=0.5, w_dist=0.5, w_desc=0.0)
        got = cost_matrix(*scoring_rows([track], [obs]), P_SIMPLE, Pose.identity(), cfg)
        assert got[0, 0] == pytest.approx(0.5 * 1.0 + 0.5 * 2.0 / 3.0, abs=1e-12)

    def test_overflowing_track_dims_give_finite_costs(self):
        # A track of finite but extreme size projects to a nan hull: IoU 0 with
        # every box, so only the distance gate admits a pair, and no cost is
        # nan or inf.
        track = _estimate([_observation(0, Pose(np.eye(3), np.array([0.0, 1.65, 20.0])),
                                        dims=(1e308, 1e308, 1e308))])
        observations = [
            _observation(1, Pose(np.eye(3), np.array([0.0, 1.65, 21.0])),
                         box=Box2D(500, 100, 700, 300)),
            _observation(1, Pose(np.eye(3), np.array([0.0, 1.65, 60.0])),
                         box=Box2D(0, 0, 1242, 375)),
        ]
        cfg = AssociationConfig(w_iou=0.5, w_dist=0.5, w_desc=0.0)
        got = cost_matrix(*scoring_rows([track], observations), P_SIMPLE, Pose.identity(), cfg)
        assert np.isfinite(got).all()
        assert got[0, 0] == pytest.approx(0.5 * 1.0 + 0.5 * 1.0 / 3.0, abs=1e-12)
        assert got[0, 1] >= _BIG

    def test_track_straddling_depth_zero_matches_oracle(self):
        # Corners at depths -0.35 to 1.35: only those in front span the hull.
        cam = Pose(yaw_to_rotation(0.4), np.array([3.0, 0.0, -2.0]))
        track = _estimate([_observation(0, compose(cam, Pose(np.eye(3),
                                                             np.array([0.5, 1.65, 0.5]))))])
        observations = [
            _observation(1, compose(cam, Pose(np.eye(3), np.array([0.0, 1.65, 2.0]))), box=box)
            for box in (Box2D(0, 0, 1242, 375), Box2D(900, 100, 1200, 375), Box2D(0, 0, 0, 0))
        ]
        cfg = AssociationConfig(dist_gate=3.0)
        got = cost_matrix(*scoring_rows([track], observations), P_SIMPLE, cam, cfg)
        for j, obs in enumerate(observations):
            want = oracle_cost(track, obs, P_SIMPLE, cam, cfg)
            assert want is not INFEASIBLE
            assert got[0, j] == pytest.approx(want, abs=1e-12)


def _axis_rotation(axis, angle):
    """Rotation by angle about the x (pitch) or z (roll) axis."""
    c, s = math.cos(angle), math.sin(angle)
    if axis == "x":
        return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


@st.composite
def drives(draw):
    """A short drive past parked objects: a trajectory, detections by frame, and P.

    The camera yaws, and may pitch and roll; it moves forward and turns a
    little each frame.  Each object keeps its image position, depth and yaw
    up to a jitter, so that tracks grow over frames.  Each frame detects a
    drawn subset of the objects: none, one or all of them.  A zero-weight
    object scores 0 in every frame.
    """
    P = draw(st.sampled_from([P_SIMPLE, P_OFFSET]))
    tilt = _axis_rotation("x", draw(st.one_of(st.just(0.0), _finite(-0.3, 0.3)))) @ \
        _axis_rotation("z", draw(st.one_of(st.just(0.0), _finite(-0.3, 0.3))))
    yaw, turn = draw(_finite(-math.pi, math.pi)), draw(_finite(-0.05, 0.05))
    n_frames = draw(st.integers(1, 6))
    poses = [Pose(yaw_to_rotation(yaw + turn * k) @ tilt, np.array([0.0, 0.0, 0.8 * k]))
             for k in range(n_frames)]
    objects = [(draw(_finite(50, 1200)), draw(_finite(120, 260)), draw(_finite(4, 60)),
                draw(_finite(-math.pi, math.pi)), draw(dimensions),
                draw(st.sampled_from([False, False, True])),
                draw(st.sampled_from(["Car", "Car", "Pedestrian"])))
               for _ in range(draw(st.integers(1, 5)))]
    detections = {}
    every = list(range(len(objects)))
    for k in range(n_frames):
        seen = draw(st.one_of(st.just(every), st.lists(st.sampled_from(every), unique=True)))
        detections[k] = [
            make_detection(frame_id=k, u=u + draw(_finite(-3, 3)), v=v + draw(_finite(-3, 3)),
                           depth=depth + draw(_finite(-0.5, 0.5)),
                           yaw=heading + draw(_finite(-0.2, 0.2)), dims=dims,
                           score=0.0 if zero_weight else draw(_finite(0.05, 1)),
                           category=category, descriptor=draw(descriptors))
            for u, v, depth, heading, dims, zero_weight, category in (objects[i] for i in seen)]
    return TrajectoryFile(poses), detections, P


def _same_bits(a: Pose, b: Pose) -> bool:
    return (a.rotation.tobytes() == b.rotation.tobytes()
            and a.translation.tobytes() == b.translation.tobytes())


class TestTableAssociationOracle:
    """run_association's sequence table and track rows against oracle_run_association,
    which lifts, scores and refits one object at a time."""

    @given(drives(), st.sampled_from([0.0, 0.3]), st.integers(1, 3),
           st.sampled_from([0.0, 0.1]))
    @settings(max_examples=60, deadline=None)
    def test_same_tracks_and_lift_bits(self, drive, threshold, gap, w_desc):
        trajectory, detections, P = drive
        cfg = AssociationConfig(score_threshold=threshold, max_frame_gap=gap, w_iou=0.5,
                                w_dist=0.5 - w_desc, w_desc=w_desc)
        got = run_association(detections, trajectory, P, cfg)
        want = oracle_run_association(detections, trajectory, P, cfg)
        assert [t.track_id for t in got] == list(range(len(want)))
        for a, b in zip(got, want):
            assert [o.detection for o in a.observations] == [o.detection for o in b.observations]
            assert all(x.detection is y.detection and _same_bits(x.global_pose, y.global_pose)
                       for x, y in zip(a.observations, b.observations))


def _checked_rows(trajectory, detections, P, cfg) -> tuple[list, set[str]]:
    """Run the association and, after every frame, check each row refresh_fused rewrote
    against oracle_track_add over that track's observations so far; the tracks and the
    cases seen."""
    captured = []
    refresh = association.refresh_fused

    def capture(fused, ks, *args):
        refresh(fused, ks, *args)
        captured.append([(k, _Rows(*(None if a is None else a[k].copy() for a in fused)))
                         for k in ks.tolist()])

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(association, "refresh_fused", capture)
        tracks = run_association(detections, trajectory, P, cfg)
    oracles, cases = {}, set()
    for frame in captured:
        for k, row in frame:
            oracle = oracles.setdefault(k, OracleTrack())
            oracle_track_add(oracle, tracks[k].observations[len(oracle.observations)])
            pose, dims = oracle.fused_pose, oracle.fused_dims
            assert row.rotation.tobytes() == pose.rotation.tobytes()
            assert row.translation.tobytes() == pose.translation.tobytes()
            assert row.dims.tobytes() == np.array([dims.height, dims.width, dims.length]).tobytes()
            latest = next((o.detection.descriptor for o in reversed(oracle.observations)
                           if o.detection.descriptor is not None), None)
            if row.descriptor is not None:
                assert row.descriptor.tobytes() == (np.zeros_like(row.descriptor) if latest is None
                                                    else latest).tobytes()
            np.testing.assert_allclose(row.rotation @ row.rotation.T, np.eye(3), rtol=0,
                                       atol=1e-9)
            assert np.linalg.det(row.rotation) > 0.0
            cases.add("single" if len(oracle.observations) == 1 else
                      "no mean" if pose is oracle.observations[-1].global_pose else "mean")
    # Every observation of every track went through a checked row.
    assert Counter({k: len(o.observations) for k, o in oracles.items()}) == Counter(
        {t.track_id: len(t.observations) for t in tracks})
    return tracks, cases


class TestRunningEstimateRows:
    """The running estimate that every association decision scores lives only in
    run_association's rows; oracle_track_add, weighted by score, is its reference."""

    @given(drives(), st.sampled_from([0.0, 0.3]), st.integers(1, 3),
           st.sampled_from([0.0, 0.1]))
    @settings(max_examples=60, deadline=None)
    def test_every_touched_row_after_every_frame(self, drive, threshold, gap, w_desc):
        cfg = AssociationConfig(score_threshold=threshold, max_frame_gap=gap, w_iou=0.5,
                                w_dist=0.5 - w_desc, w_desc=w_desc)
        _checked_rows(*drive, cfg)

    def test_single_no_mean_and_mean_rows(self):
        # Two parked cars over three frames.  Frame 0 starts both tracks from single
        # observations; one car scores 0 in every frame, so its sums never have a mean.
        trajectory = TrajectoryFile([Pose(np.eye(3), np.array([0.0, 0.0, 0.8 * k]))
                                     for k in range(3)])
        detections = {k: [make_detection(frame_id=k, u=400.0, depth=20.0 - 0.8 * k, score=0.0),
                          make_detection(frame_id=k, u=800.0, depth=25.0 - 0.8 * k,
                                         yaw=0.1 * k, score=0.5 + 0.2 * k, descriptor=[1, k])]
                      for k in range(3)}
        cfg = AssociationConfig(score_threshold=0.0, w_iou=0.4, w_dist=0.4, w_desc=0.2)
        tracks, cases = _checked_rows(trajectory, detections, P_SIMPLE, cfg)
        assert cases == {"single", "no mean", "mean"}
        assert [_frame_ids(t) for t in tracks] == [[0, 1, 2], [0, 1, 2]]


class TestFinalFusionWeights:
    """Final fusion follows WeightPolicy; the running estimate weights by score whatever
    the policy (TestRunningEstimateRows)."""

    @pytest.mark.parametrize("seed", [1000, 1001, 1002])
    def test_inverse_variance_config_on_criterion_2_scenes(self, seed):
        # Criterion 2's scenes, with a known sigma = 0.1 + 0.02 * depth per detection.
        gt, detections = generate(SimConfig(
            seed=seed, n_objects=2, frames=45, sigma_z=0.5, sigma_yaw=math.radians(10.0),
            depth_range=(25.0, 40.0), sigma_model=(0.1, 0.02)))
        by_frame = {}
        for d in detections:
            by_frame.setdefault(d.frame_id, []).append(d)
        tracks = run_association(by_frame, gt.trajectory, gt.P,
                                 AssociationConfig(w_iou=0.5, w_dist=0.5, w_desc=0.0))
        policy, cfg = WeightPolicy("inverse_variance"), FusionConfig()
        apart = 0.0
        for track in (t for t in tracks if len(t.observations) > 1):
            obs = track.observations
            by_score, _ = oracle_fuse(obs, [o.detection.score for o in obs])
            weights = [observation_weight(o, policy) for o in obs]
            by_variance, _ = oracle_fuse(obs, weights)
            apart = max(apart, float(np.abs(by_variance.translation
                                            - by_score.translation).max()))

            landmark = fuse_track(track, policy, cfg)
            if not isinstance(landmark, Landmark):
                continue
            inliers, _ = reject_outliers(obs, cfg, weights=weights)
            want, _ = oracle_fuse(inliers, [observation_weight(o, policy) for o in inliers])
            np.testing.assert_allclose(landmark.global_pose.translation, want.translation,
                                       rtol=0, atol=1e-9)
            np.testing.assert_allclose(landmark.global_pose.rotation, want.rotation,
                                       rtol=0, atol=1e-9)
        # The two weightings really differ here, so the check above tells them apart.
        assert apart > 1e-3
